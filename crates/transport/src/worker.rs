//! A partition worker: one [`RowStore`] behind an idempotent request handler
//! — each [`Request`] maps to the one store method that answers it —
//! restartable from its durable change log.
//!
//! ## Exactly-once applies over at-least-once delivery
//!
//! The RPC layer retransmits requests until a response arrives, so a worker
//! can see the same [`Request::ApplyBatch`] many times (and, after healing
//! a long outage, arbitrarily stale copies).  The handler is idempotent by
//! batch sequence number:
//!
//! * `batch_seq == next expected` — journal the interned slice as received
//!   (tail and ids), apply it, cache and return the report;
//! * `batch_seq <  next expected` — a duplicate of an already-applied
//!   batch: re-acknowledge from the report cache without touching state;
//! * `batch_seq >  next expected` — unreachable under the coordinator's
//!   no-pipelining rule (it never issues batch `n+1` before every worker
//!   acknowledged batch `n`); the worker panics to surface protocol bugs.
//!
//! ## Crash and replay
//!
//! [`PartitionWorker::crash_and_recover`] models a process kill: store and
//! report cache are discarded, then rebuilt from the last durable
//! [`WorkerCheckpoint`] (if one was taken) plus the journal tail — resume
//! the checkpointed [`mlnclean::SessionSnapshot`] into a fresh store,
//! restore its report cache, then decode and re-apply every journaled
//! slice past the checkpoint cursor through the same
//! [`RowStore::apply_interned`] the live handler used.  With no checkpoint
//! the log is replayed into an empty store.  A slice's ids name the pool as
//! its tail leaves it, and replay rebuilds that pool tail by tail in the
//! original order, so every id lands on its value again.  Because ingest is
//! deterministic, the recovered store — pool, rows and index — is
//! byte-identical to the lost one, which is exactly what the chaos tests
//! pin.
//!
//! ## Checkpoints bound the journal
//!
//! [`Request::Checkpoint`] makes the worker encode a compacting store
//! snapshot through the codec, stash it (with the report cache it must be
//! able to re-acknowledge from) as durable state beside the log, and
//! [`MemLog::truncate_through`] the covered journal prefix — so a
//! long-lived stream's journal stays bounded by the checkpoint cadence
//! instead of growing forever.  The handler is idempotent: at a fixed batch
//! cursor the snapshot is deterministic, and a retransmit duplicate at the
//! same cursor is re-acknowledged from the stored checkpoint.

use crate::log::{ChangeLog, MemLog};
use crate::message::{Request, Response};
use dataset::Schema;
use mlnclean::{BatchReport, CleanConfig, CleanError, InternedSlice, RowStore, SessionSnapshot};
use rules::RuleSet;

/// A durable store checkpoint: everything recovery needs besides the
/// journal tail.  "Durable" in the same sense as [`MemLog`] — it survives
/// the simulated crash (standing in for a disk/replicated store), while the
/// live store does not.
#[derive(Debug, Clone)]
pub struct WorkerCheckpoint {
    /// Codec frame of the [`SessionSnapshot`] at checkpoint time.
    pub frame: Vec<u8>,
    /// Report cache at checkpoint time: replaying only the journal tail
    /// cannot re-derive pre-checkpoint reports, but stale duplicates of
    /// pre-checkpoint batches still need re-acknowledging.
    pub reports: Vec<BatchReport>,
    /// Batches the checkpoint covers (the apply cursor when it was taken).
    pub batches: u64,
}

/// One partition's state behind the wire (see the [module docs](self)).
#[derive(Debug)]
pub struct PartitionWorker {
    config: CleanConfig,
    schema: Schema,
    rules: RuleSet,
    store: RowStore,
    log: MemLog,
    reports: Vec<BatchReport>,
    checkpoint: Option<WorkerCheckpoint>,
    restarts: usize,
}

impl PartitionWorker {
    /// Open a worker with an empty store and log.  Fails like
    /// [`RowStore::new`] does.
    pub fn new(config: CleanConfig, schema: Schema, rules: RuleSet) -> Result<Self, CleanError> {
        let store = RowStore::new(config.clone(), schema.clone(), rules.clone())?;
        Ok(PartitionWorker {
            config,
            schema,
            rules,
            store,
            log: MemLog::new(),
            reports: Vec::new(),
            checkpoint: None,
            restarts: 0,
        })
    }

    /// Batches applied so far (== next expected sequence number).
    pub fn applied_batches(&self) -> u64 {
        self.reports.len() as u64
    }

    /// How many times this worker was crashed and recovered.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// The worker's store (what recovery must rebuild byte for byte).
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// The worker's durable journal.
    pub fn log(&self) -> &MemLog {
        &self.log
    }

    /// The worker's last durable checkpoint, if one was taken.
    pub fn checkpoint(&self) -> Option<&WorkerCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Handle one request (see the [module docs](self) for the idempotency
    /// contract).
    pub fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::ApplyBatch { batch_seq, slice } => {
                let next = self.reports.len() as u64;
                if batch_seq < next {
                    // Duplicate delivery of an applied batch: re-ack from
                    // the cache, leaving the store untouched.
                    return Response::Applied {
                        batch_seq,
                        report: self.reports[batch_seq as usize].clone(),
                    };
                }
                assert_eq!(
                    batch_seq, next,
                    "coordinator pipelined a batch past an unacknowledged one"
                );
                // Journal first, then apply: if the apply is reached, the
                // log already explains it (the crash model only fires
                // between deliveries, so the pair is atomic anyway).
                self.log
                    .append(batch_seq, &mlnw::to_bytes(&slice).expect("slices encode"));
                let report = self.store.apply_interned(slice);
                let report = report.map(|applied| applied.report);
                let report = report.expect("the coordinator pre-validated the change set");
                self.reports.push(report.clone());
                Response::Applied { batch_seq, report }
            }
            Request::PristineBlocks { blocks } => Response::PristineBlocks {
                blocks: self.store.pristine_blocks(&blocks),
            },
            Request::GatherRows => Response::GatherRows {
                rows: self.store.rows(),
            },
            Request::IndexClock => Response::IndexClock {
                clock: self.store.index_clock(),
            },
            Request::Checkpoint => {
                let batches = self.reports.len() as u64;
                // Retransmit duplicate at an unchanged cursor: re-ack from
                // the stored checkpoint without re-encoding anything.
                if let Some(cp) = &self.checkpoint {
                    if cp.batches == batches {
                        return Response::Checkpointed {
                            batches,
                            snapshot_bytes: cp.frame.len() as u64,
                        };
                    }
                }
                let frame = mlnw::to_bytes(&self.store.snapshot()).expect("snapshots encode");
                let snapshot_bytes = frame.len() as u64;
                self.checkpoint = Some(WorkerCheckpoint {
                    frame,
                    reports: self.reports.clone(),
                    batches,
                });
                // The checkpoint durably covers batches 0..batches, so the
                // journaled prefix is dead weight.
                if batches > 0 {
                    self.log.truncate_through(batches - 1);
                }
                Response::Checkpointed {
                    batches,
                    snapshot_bytes,
                }
            }
        }
    }

    /// Kill the worker's volatile state and recover it from durable state:
    /// resume the last checkpoint into a fresh store (or open an empty one
    /// if none was taken), then replay the journal tail past the checkpoint
    /// cursor in order, re-deriving the post-checkpoint report cache along
    /// the way.
    pub fn crash_and_recover(&mut self) {
        self.restarts += 1;
        let replay_from = match &self.checkpoint {
            Some(cp) => {
                let snapshot: SessionSnapshot =
                    mlnw::from_bytes(&cp.frame).expect("checkpoint frames decode");
                self.store = RowStore::resume(self.config.clone(), self.rules.clone(), snapshot)
                    .expect("a snapshot that was taken resumes");
                self.reports = cp.reports.clone();
                cp.batches
            }
            None => {
                self.store =
                    RowStore::new(self.config.clone(), self.schema.clone(), self.rules.clone())
                        .expect("a store that opened once opens again");
                self.reports.clear();
                0
            }
        };
        for entry in self.log.entries().to_vec() {
            // The journal may still hold a truncated-away prefix only if the
            // checkpoint raced an append; covered entries are already inside
            // the resumed state and must not double-apply.
            if entry.batch_seq < replay_from {
                continue;
            }
            let slice: InternedSlice =
                mlnw::from_bytes(&entry.payload).expect("journaled frames decode");
            let applied = self.store.apply_interned(slice);
            let applied = applied.expect("journaled batches were valid when first applied");
            self.reports.push(applied.report);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dataset::{TupleId, ValueId};
    use mlnclean::{ChangeSet, IdMutation, Mutation};
    use rules::parse_rules;

    /// The coordinator's side of one partition's pool, for hand-fed
    /// workers: interns change sets into slices the way routing does — a
    /// value's first occurrence takes the next id and joins the tail.
    #[derive(Debug, Default)]
    pub(crate) struct Shipper(Vec<String>);

    impl Shipper {
        pub(crate) fn slice(&mut self, changes: ChangeSet) -> InternedSlice {
            let Shipper(sent) = self;
            let mut tail = Vec::new();
            let mut ship = |value: String| {
                let at = sent.iter().position(|v| *v == value).unwrap_or_else(|| {
                    sent.push(value.clone());
                    tail.push(value);
                    sent.len() - 1
                });
                ValueId(at as u32)
            };
            let mut mutations = Vec::new();
            for mutation in changes {
                mutations.push(match mutation {
                    Mutation::Insert(rows) => {
                        IdMutation::Insert(rows.into_iter().flatten().map(&mut ship).collect())
                    }
                    Mutation::Update(t, attr, value) => IdMutation::Update(t, attr, ship(value)),
                    Mutation::Delete(t) => IdMutation::Delete(t),
                });
            }
            InternedSlice { tail, mutations }
        }
    }

    /// Apply `changes` as batch `batch_seq`, interned by `shipper`.
    fn apply(w: &mut PartitionWorker, shipper: &mut Shipper, batch_seq: u64, changes: ChangeSet) {
        let slice = shipper.slice(changes);
        w.handle(Request::ApplyBatch { batch_seq, slice });
    }

    fn worker() -> PartitionWorker {
        let schema = Schema::new(&["City", "Zip"]);
        let rules = parse_rules("FD: City -> Zip").unwrap();
        PartitionWorker::new(CleanConfig::default(), schema, rules).unwrap()
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
    fn duplicate_applies_re_ack_without_reapplying() {
        let mut w = worker();
        let slice = Shipper::default().slice(insert(&[("BOAZ", "35016"), ("BOAZ", "35014")]));
        let first = w.handle(Request::ApplyBatch {
            batch_seq: 0,
            slice: slice.clone(),
        });
        let Response::Applied { report, .. } = first else {
            panic!("apply must ack");
        };
        // Deliver the exact same request again — a retransmit duplicate.
        let dup = w.handle(Request::ApplyBatch {
            batch_seq: 0,
            slice,
        });
        let Response::Applied {
            report: dup_report, ..
        } = dup
        else {
            panic!("duplicate must re-ack");
        };
        assert_eq!(report, dup_report);
        assert_eq!(w.applied_batches(), 1);
        assert_eq!(w.session_rows(), 2, "rows must not double-apply");
    }

    #[test]
    fn crash_recovery_replays_to_identical_state() {
        let mut w = worker();
        let mut shipper = Shipper::default();
        for (seq, batch) in [
            insert(&[("BOAZ", "35016"), ("BOAZ", "35014"), ("ELBA", "36323")]),
            [Mutation::Update(
                TupleId(2),
                dataset::AttrId(1),
                "36325".into(),
            )]
            .into_iter()
            .collect(),
            [Mutation::Delete(TupleId(0))].into_iter().collect(),
        ]
        .into_iter()
        .enumerate()
        {
            apply(&mut w, &mut shipper, seq as u64, batch);
        }
        let before_rows = dump(&mut w);
        let before_reports = w.reports.clone();

        w.crash_and_recover();

        assert_eq!(w.restarts(), 1);
        assert_eq!(
            dump(&mut w),
            before_rows,
            "replayed rows and pool must be identical"
        );
        assert_eq!(
            w.reports, before_reports,
            "replayed reports must be identical"
        );
    }

    #[test]
    fn checkpoint_truncates_log_and_recovery_replays_only_the_tail() {
        let mut w = worker();
        let mut shipper = Shipper::default();
        let batches = [
            insert(&[("BOAZ", "35016"), ("BOAZ", "35014"), ("ELBA", "36323")]),
            [Mutation::Update(
                TupleId(2),
                dataset::AttrId(1),
                "36325".into(),
            )]
            .into_iter()
            .collect::<ChangeSet>(),
            insert(&[("ELBA", "36323")]),
            [Mutation::Delete(TupleId(0))].into_iter().collect(),
        ]
        .map(|batch| shipper.slice(batch));
        // Apply two, checkpoint, apply two more.
        for (seq, slice) in batches.iter().take(2).enumerate() {
            w.handle(Request::ApplyBatch {
                batch_seq: seq as u64,
                slice: slice.clone(),
            });
        }
        let Response::Checkpointed {
            batches: covered,
            snapshot_bytes,
        } = w.handle(Request::Checkpoint)
        else {
            panic!("checkpoint must ack");
        };
        assert_eq!(covered, 2);
        assert!(snapshot_bytes > 0);
        assert!(w.log().is_empty(), "the covered journal prefix must go");

        for (seq, slice) in batches.iter().enumerate().skip(2) {
            w.handle(Request::ApplyBatch {
                batch_seq: seq as u64,
                slice: slice.clone(),
            });
        }
        assert_eq!(w.log().len(), 2, "only the tail is journaled");
        let before_rows = dump(&mut w);
        let before_reports = w.reports.clone();

        w.crash_and_recover();

        assert_eq!(w.restarts(), 1);
        assert_eq!(
            dump(&mut w),
            before_rows,
            "checkpoint + tail replay must reconstruct identical rows"
        );
        assert_eq!(
            w.reports, before_reports,
            "the full report cache must survive (prefix from the \
             checkpoint, tail re-derived)"
        );

        // A stale duplicate of a PRE-checkpoint batch still re-acks from
        // the restored cache without touching state.
        let rows_now = w.session_rows();
        let dup = w.handle(Request::ApplyBatch {
            batch_seq: 0,
            slice: batches[0].clone(),
        });
        let Response::Applied { report, .. } = dup else {
            panic!("duplicate must re-ack");
        };
        assert_eq!(report, before_reports[0]);
        assert_eq!(w.session_rows(), rows_now);
    }

    #[test]
    fn duplicate_checkpoint_re_acks_without_re_encoding() {
        let mut w = worker();
        let mut shipper = Shipper::default();
        apply(&mut w, &mut shipper, 0, insert(&[("BOAZ", "35016")]));
        let Response::Checkpointed { batches, .. } = w.handle(Request::Checkpoint) else {
            panic!("checkpoint must ack");
        };
        assert_eq!(batches, 1);
        let frame = w.checkpoint().unwrap().frame.clone();
        // Retransmit duplicate: same cursor, same stored frame, same ack.
        let Response::Checkpointed { batches, .. } = w.handle(Request::Checkpoint) else {
            panic!("duplicate checkpoint must re-ack");
        };
        assert_eq!(batches, 1);
        assert_eq!(w.checkpoint().unwrap().frame, frame);

        // After another batch the cursor moved, so a new checkpoint
        // supersedes the old one.
        apply(&mut w, &mut shipper, 1, insert(&[("ELBA", "36323")]));
        let Response::Checkpointed { batches, .. } = w.handle(Request::Checkpoint) else {
            panic!("checkpoint must ack");
        };
        assert_eq!(batches, 2);
        assert!(w.log().is_empty());
    }

    #[test]
    fn checkpoint_before_any_batch_recovers_an_empty_session() {
        let mut w = worker();
        let Response::Checkpointed { batches, .. } = w.handle(Request::Checkpoint) else {
            panic!("checkpoint must ack");
        };
        assert_eq!(batches, 0);
        w.crash_and_recover();
        assert_eq!(w.applied_batches(), 0);
        assert_eq!(w.session_rows(), 0);
        // The degenerate checkpoint must not break later applies.
        let mut shipper = Shipper::default();
        apply(&mut w, &mut shipper, 0, insert(&[("BOAZ", "35016")]));
        assert_eq!(w.session_rows(), 1);
    }

    /// The worker's rows as value ids, and the pool that resolves them.
    fn dump(w: &mut PartitionWorker) -> (Vec<Vec<ValueId>>, dataset::ValuePool) {
        (w.store.rows(), w.store.dataset().pool().clone())
    }

    impl PartitionWorker {
        fn session_rows(&self) -> usize {
            self.store.rows().len()
        }
    }
}
