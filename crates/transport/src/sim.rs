//! Deterministic simulated transport.
//!
//! [`SimNet`] is an in-process datagram network with a discrete tick clock.
//! Sends serialize the envelope through the [`mlnw`] codec (every message
//! really crosses the byte boundary), consult the seeded [`FaultSchedule`],
//! and enqueue zero or more deliveries at future ticks; [`SimNet::advance`]
//! pops the earliest delivery, moves the clock to it, and decodes the bytes
//! back into an [`Envelope`].
//!
//! Determinism is the point: the same seed and the same send sequence yield
//! the same delivery interleaving, so a CI failure under a hostile schedule
//! is replayable from its seed alone.  Faults injected per transmission:
//!
//! * **delay** — every datagram takes `delay.0..=delay.1` ticks (delay
//!   variance is also what causes reordering);
//! * **reorder** — with probability `reorder`, an extra jitter of up to
//!   `4 × delay.1` ticks lands the datagram far out of order;
//! * **duplicate** — with probability `duplicate`, a second copy is
//!   enqueued with its own delay;
//! * **loss** — with probability `loss`, the datagram is dropped;
//! * **link outages** — while `clock ∈ [from, until)` for an
//!   [`LinkOutage`] covering the (src, dst) pair, every datagram on that
//!   link is dropped (outages must end: the RPC layer retries past them).
//!
//! The schedule also carries [`WorkerCrash`] events — the service kills and
//! replays the named worker when the clock passes `at` (see
//! [`crate::service`]); the network itself only transports bytes.

use crate::message::{Envelope, NodeId};
use dataset::rng::Rng;
use mlnclean::CleanError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A window during which a link drops everything, in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkOutage {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First tick of the outage (inclusive).
    pub from: u64,
    /// First tick after the outage (exclusive) — outages heal.
    pub until: u64,
}

/// Kill worker `worker` once the clock reaches `at`; the service restarts
/// it immediately from its durable change log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCrash {
    /// Tick at (or after) which the crash fires.
    pub at: u64,
    /// Worker index (0-based, not its node address).
    pub worker: usize,
}

/// Seeded description of everything hostile the network will do.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// RNG seed; two runs with equal schedules are identical.
    pub seed: u64,
    /// Per-datagram base delay range in ticks (min, max), inclusive.
    pub delay: (u64, u64),
    /// Probability of an extra long jitter forcing reordering.
    pub reorder: f64,
    /// Probability of duplicating a datagram.
    pub duplicate: f64,
    /// Probability of dropping a datagram.
    pub loss: f64,
    /// Scheduled link outages.
    pub outages: Vec<LinkOutage>,
    /// Scheduled worker crashes (consumed by the service layer).
    pub crashes: Vec<WorkerCrash>,
}

impl FaultSchedule {
    /// A fault-free schedule: instant, in-order, reliable delivery.
    pub fn reliable() -> Self {
        FaultSchedule {
            seed: 0,
            delay: (0, 0),
            reorder: 0.0,
            duplicate: 0.0,
            loss: 0.0,
            outages: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Check that the network can run this schedule: every probability in
    /// `[0, 1]`, `delay.0 <= delay.1`, and `delay.1 <= u64::MAX / 5`, so the
    /// longest delay — `delay.1` plus a reorder jitter of up to
    /// `4 × delay.1` — fits a `u64` tick.
    pub(crate) fn validate(&self) -> Result<(), CleanError> {
        let reject = |field, requirement| Err(CleanError::FaultSchedule { field, requirement });
        for (field, p) in [
            ("loss", self.loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return reject(field, "must be a probability in [0, 1]");
            }
        }
        let (lo, hi) = self.delay;
        if lo > hi {
            return reject("delay", "must not have a minimum above its maximum");
        }
        if hi > u64::MAX / 5 {
            return reject(
                "delay",
                "must have a maximum whose reorder jitter fits the clock",
            );
        }
        Ok(())
    }

    /// Whether the (src, dst) link is inside an outage window at `tick`.
    fn link_down(&self, src: NodeId, dst: NodeId, tick: u64) -> bool {
        self.outages.iter().any(|o| {
            let covers = (o.a == src && o.b == dst) || (o.a == dst && o.b == src);
            covers && tick >= o.from && tick < o.until
        })
    }
}

/// Transport-level tallies, for probes and bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Datagrams handed to [`SimNet::send`] (retransmissions included).
    pub sent: u64,
    /// Datagrams actually delivered (duplicates included).
    pub delivered: u64,
    /// Datagrams dropped by loss or a link outage.
    pub dropped: u64,
    /// Extra copies enqueued by duplication.
    pub duplicated: u64,
    /// Retransmissions (counted by the RPC layer via
    /// [`SimNet::note_retransmit`]).
    pub retransmits: u64,
    /// Total encoded bytes offered to the network.
    pub bytes_sent: u64,
}

/// One scheduled delivery.  Ordered by (tick, sequence) so the heap pops a
/// unique, deterministic earliest element.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Flight {
    deliver_at: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// The simulated datagram network (see the [module docs](self)).
#[derive(Debug)]
pub struct SimNet {
    clock: u64,
    schedule: FaultSchedule,
    rng: Rng,
    inflight: BinaryHeap<Reverse<Flight>>,
    next_seq: u64,
    counters: NetCounters,
}

impl SimNet {
    /// A network driven by the given fault schedule.
    pub fn new(schedule: FaultSchedule) -> Self {
        let rng = Rng::seeded(schedule.seed);
        SimNet {
            clock: 0,
            schedule,
            rng,
            inflight: BinaryHeap::new(),
            next_seq: 0,
            counters: NetCounters::default(),
        }
    }

    /// Current tick.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Transport tallies so far.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// The schedule this network runs under.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Advance the clock without a delivery (the RPC layer's retry timer:
    /// with nothing in flight, time must still pass for outages to heal).
    pub fn tick(&mut self, by: u64) {
        self.clock = self.clock.saturating_add(by);
    }

    /// Record a retransmission decided by the RPC layer.
    pub fn note_retransmit(&mut self) {
        self.counters.retransmits += 1;
    }

    /// Offer a datagram to the network.  It is encoded immediately; the
    /// fault schedule decides how many copies (0, 1 or 2) get scheduled and
    /// when they land.
    pub fn send(&mut self, envelope: &Envelope) {
        let bytes = mlnw::to_bytes(envelope).expect("wire types always encode");
        self.counters.sent += 1;
        self.counters.bytes_sent += bytes.len() as u64;

        if self
            .schedule
            .link_down(envelope.src, envelope.dst, self.clock)
            || (self.schedule.loss > 0.0 && self.rng.chance(self.schedule.loss))
        {
            self.counters.dropped += 1;
            return;
        }

        let copies = if self.schedule.duplicate > 0.0 && self.rng.chance(self.schedule.duplicate) {
            self.counters.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = self.draw_delay();
            let flight = Flight {
                deliver_at: self.clock.saturating_add(delay),
                seq: self.next_seq,
                bytes: bytes.clone(),
            };
            self.next_seq += 1;
            self.inflight.push(Reverse(flight));
        }
    }

    fn draw_delay(&mut self) -> u64 {
        let (lo, hi) = self.schedule.delay;
        let mut delay = if hi > lo { self.rng.range(lo..=hi) } else { lo };
        if self.schedule.reorder > 0.0 && self.rng.chance(self.schedule.reorder) {
            let span = self.schedule.delay.1.max(1) * 4;
            delay += self.rng.range(1..=span);
        }
        delay
    }

    /// Deliver the earliest in-flight datagram, advancing the clock to its
    /// arrival tick.  `None` when nothing is in flight.
    pub fn advance(&mut self) -> Option<Envelope> {
        let Reverse(flight) = self.inflight.pop()?;
        self.clock = self.clock.max(flight.deliver_at);
        self.counters.delivered += 1;
        Some(mlnw::from_bytes(&flight.bytes).expect("the network only carries encoded envelopes"))
    }

    /// Whether any datagram is still in flight.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Payload, Request, COORDINATOR};

    fn probe(dst: NodeId, req_id: u64) -> Envelope {
        Envelope {
            src: COORDINATOR,
            dst,
            req_id,
            body: Payload::Request(Request::GatherRows),
        }
    }

    fn drain(net: &mut SimNet) -> Vec<u64> {
        let mut ids = Vec::new();
        while let Some(env) = net.advance() {
            ids.push(env.req_id);
        }
        ids
    }

    #[test]
    fn reliable_schedule_delivers_in_order() {
        let mut net = SimNet::new(FaultSchedule::reliable());
        for i in 0..10 {
            net.send(&probe(1, i));
        }
        assert_eq!(drain(&mut net), (0..10).collect::<Vec<_>>());
        let counters = net.counters();
        assert_eq!(counters.sent, 10);
        assert_eq!(counters.delivered, 10);
        assert_eq!(counters.dropped, 0);
    }

    #[test]
    fn same_seed_same_interleaving() {
        let schedule = FaultSchedule {
            seed: 7,
            delay: (0, 9),
            reorder: 0.3,
            duplicate: 0.2,
            loss: 0.2,
            ..FaultSchedule::reliable()
        };
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut net = SimNet::new(schedule.clone());
                for i in 0..50 {
                    net.send(&probe(1 + (i as usize % 3), i));
                }
                drain(&mut net)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn faults_actually_fire() {
        let mut net = SimNet::new(FaultSchedule {
            seed: 11,
            delay: (0, 5),
            reorder: 0.5,
            duplicate: 0.5,
            loss: 0.3,
            ..FaultSchedule::reliable()
        });
        for i in 0..200 {
            net.send(&probe(1, i));
        }
        let delivered = drain(&mut net);
        let counters = net.counters();
        assert!(counters.dropped > 0, "loss never fired");
        assert!(counters.duplicated > 0, "duplication never fired");
        assert_eq!(
            counters.delivered as usize,
            delivered.len(),
            "counter drifted from reality"
        );
        assert_eq!(
            counters.sent - counters.dropped + counters.duplicated,
            counters.delivered,
            "every non-dropped copy must land"
        );
        assert!(
            delivered.windows(2).any(|w| w[0] > w[1]),
            "delay variance should reorder something"
        );
    }

    #[test]
    fn outages_drop_then_heal() {
        let mut net = SimNet::new(FaultSchedule {
            outages: vec![LinkOutage {
                a: COORDINATOR,
                b: 1,
                from: 0,
                until: 100,
            }],
            ..FaultSchedule::reliable()
        });
        net.send(&probe(1, 0));
        assert_eq!(net.counters().dropped, 1);
        assert!(net.advance().is_none());
        net.tick(100);
        net.send(&probe(1, 1));
        assert_eq!(net.advance().unwrap().req_id, 1);
        // A different link is unaffected during the outage.
        let mut net2 = SimNet::new(FaultSchedule {
            outages: vec![LinkOutage {
                a: COORDINATOR,
                b: 1,
                from: 0,
                until: 100,
            }],
            ..FaultSchedule::reliable()
        });
        net2.send(&probe(2, 5));
        assert_eq!(net2.advance().unwrap().req_id, 5);
    }
}
