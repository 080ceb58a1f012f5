//! The per-partition durable change log.
//!
//! A worker's only state-changing input is the ordered sequence of applied
//! change-set slices, so durably recording exactly that sequence makes the
//! worker restartable: a fresh [`mlnclean::RowStore`] replaying the log in
//! order reconstructs byte-identical state (ingest is deterministic — same
//! slices in, same pool, rows and pristine index out).
//!
//! Entries are stored as **encoded frames** ([`mlnw`] bytes of the
//! [`mlnclean::InternedSlice`] a worker received), not live objects: what
//! survives a crash is whatever was written through the codec, so replay
//! exercises the same decode path a remote disk or replicated log would.

/// One durable record: a batch sequence number and the encoded slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The worker-local apply ordinal (dense from 0).
    pub batch_seq: u64,
    /// Codec frame of the applied [`mlnclean::InternedSlice`].
    pub payload: Vec<u8>,
}

/// Append-only change log a worker journals applied batches into.
///
/// `append` must be atomic with respect to the crash model: the simulated
/// crash points sit *between* message deliveries, never inside a handler,
/// so an entry is either fully present or was never written.
pub trait ChangeLog {
    /// Journal one applied batch.
    fn append(&mut self, batch_seq: u64, payload: &[u8]);
    /// All entries, in append order.
    fn entries(&self) -> &[LogEntry];
    /// Number of journaled batches.
    fn len(&self) -> usize {
        self.entries().len()
    }
    /// Whether nothing was journaled yet.
    fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }
}

/// In-memory change log.  "Durable" relative to the simulated crash model:
/// a crash tears down the worker's store, not its log (the log stands in
/// for the disk / replicated store a real deployment would write).
#[derive(Debug, Clone, Default)]
pub struct MemLog {
    entries: Vec<LogEntry>,
}

impl MemLog {
    /// An empty log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// Drop every entry with `batch_seq <= seq`.
    ///
    /// Called when a checkpoint durably captures store state through batch
    /// `seq`: recovery then resumes from the checkpoint and replays only the
    /// tail, so the covered prefix is dead weight — without this the journal
    /// of a long-lived stream grows without bound.
    pub fn truncate_through(&mut self, seq: u64) {
        self.entries.retain(|e| e.batch_seq > seq);
    }
}

impl ChangeLog for MemLog {
    fn append(&mut self, batch_seq: u64, payload: &[u8]) {
        // Dense in-order journaling, modulo a truncated prefix: after a
        // checkpoint the log may start anywhere, but appends must still
        // extend the tail contiguously.
        debug_assert_eq!(
            batch_seq,
            self.entries.last().map_or(batch_seq, |e| e.batch_seq + 1),
            "batches must be journaled densely in order"
        );
        self.entries.push(LogEntry {
            batch_seq,
            payload: payload.to_vec(),
        });
    }

    fn entries(&self) -> &[LogEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlnclean::{ChangeSet, Mutation};

    #[test]
    fn log_round_trips_change_sets() {
        let mut log = MemLog::new();
        let batches: Vec<ChangeSet> = (0..3)
            .map(|i| {
                [Mutation::Insert(vec![vec![format!("v{i}")]])]
                    .into_iter()
                    .collect()
            })
            .collect();
        for (i, batch) in batches.iter().enumerate() {
            log.append(i as u64, &mlnw::to_bytes(batch).unwrap());
        }
        assert_eq!(log.len(), 3);
        for (i, entry) in log.entries().iter().enumerate() {
            assert_eq!(entry.batch_seq, i as u64);
            let back: ChangeSet = mlnw::from_bytes(&entry.payload).unwrap();
            assert_eq!(back, batches[i]);
        }
    }

    #[test]
    fn truncate_through_keeps_only_the_tail() {
        let mut log = MemLog::new();
        for seq in 0..5u64 {
            log.append(seq, &[seq as u8]);
        }
        log.truncate_through(2);
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.entries()
                .iter()
                .map(|e| e.batch_seq)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Appends keep extending the (now offset) tail densely.
        log.append(5, &[5]);
        assert_eq!(log.entries().last().unwrap().batch_seq, 5);
        // Truncating everything empties the log; the next append may then
        // start at any sequence number (a fresh post-checkpoint tail).
        log.truncate_through(5);
        assert!(log.is_empty());
        log.append(6, &[6]);
        assert_eq!(log.len(), 1);
    }
}
