//! The engine matrix: every change stream through every execution plan.
//!
//! Rows are change streams ([`Stream`]): the hospital scripted mutations,
//! and a [`Table`] — the hospital sample, or a seeded HAI or CAR table with
//! or without the AGP distance guard — inserted in micro-batches or driven
//! by seeded random insert/update/delete streams (`kit/scripts.rs`).
//! Columns are plans, in six families ([`Plans`]): a `CleaningSession`
//! serial and parallel, with and without an outcome per step; the same
//! session under a 1-byte memory budget; suspended through the `mlnw` codec
//! and resumed at a seeded cut; the streaming coordinator, serial and
//! parallel, at every partition count × merge cadence of [`SHAPES`]; and the
//! coordinator over `WireBackend` workers, under the six fault classes or
//! under a reliable network and seeded fault schedules with crashes.  The
//! one oracle is `MlnClean` on the net table (`kit/oracle.rs`): each cell's
//! last outcome, and every outcome a per-step column draws, equals it byte
//! for byte, and every step's batch report counts the rows, cells and
//! deletes the net table saw.
//!
//! The four equivalence suites (session, streaming, budgeted, wire) share
//! the matrix out: each line of a [`cells!`] table is one test, some rows
//! through some plan families, and every kind of row meets every family of
//! [`EVERY`] in one of them.  A suite includes this module (with `#[macro_use]`, and
//! through it the oracle and the script generator); it runs only its own
//! rows and families, so the rest of the module is dead code to it.
#![allow(dead_code)]

#[path = "oracle.rs"]
pub mod oracle;
#[path = "scripts.rs"]
pub mod scripts;

use dataset::rng::Rng;
use dataset::{Dataset, TupleId};
use distributed::{DistributedStreamingSession, PartitionBackend};
use mlnclean::{
    BatchReport, ChangeSet, CleanConfig, CleaningSession, MemoryStats, MlnClean, Mutation, Report,
    SessionSnapshot,
};
use oracle::assert_outcomes_identical;
use rules::RuleSet;
use scripts::random_scripts;
use std::ops::Range;
use transport::{wire_session, FaultSchedule, LinkOutage, WorkerCrash, COORDINATOR};

/// A dirty table, its rules and the configuration every plan cleans it
/// with: the row constructors' input.
#[derive(Clone)]
pub struct Table {
    label: String,
    dirty: Dataset,
    rules: RuleSet,
    config: CleanConfig,
}

/// A row: a change stream over one table, with what the net table does
/// after every step.
pub struct Stream {
    label: String,
    of: Table,
    steps: Vec<ChangeSet>,
    /// Per step: rows inserted, cells changed, rows deleted, net rows.
    counts: Vec<[usize; 4]>,
    /// Per step: `MlnClean` on the net table.
    expected: Vec<Report>,
    /// The step a suspended session resumes at and every worker of a
    /// crashing wire schedule is crashed before.
    cut: usize,
    seed: u64,
}

/// The hospital sample (τ 1).
pub fn hospital() -> Table {
    Table {
        label: "hospital".into(),
        dirty: dataset::sample_hospital_dataset(),
        rules: rules::sample_hospital_rules(),
        config: CleanConfig::default().with_tau(1),
    }
}

/// A seeded HAI table (τ 2).
pub fn hai(rows: usize, providers: usize, rate: f64, seed: u64) -> Table {
    let generator = datagen::HaiGenerator::default().with_rows(rows);
    Table {
        label: format!("hai {rows}×{providers}@{rate}/{seed}"),
        dirty: generator
            .with_providers(providers)
            .dirty(rate, 0.5, seed)
            .dirty,
        rules: datagen::HaiGenerator::rules(),
        config: CleanConfig::default().with_tau(2),
    }
}

/// A seeded CAR table (τ 1); its CFD (`Make="acura"`) leaves some change
/// sets' CFD block clean, the partial-dirtiness path.
pub fn car(rows: usize, rate: f64, seed: u64) -> Table {
    Table {
        label: format!("car {rows}@{rate}/{seed}"),
        dirty: datagen::CarGenerator::default()
            .with_rows(rows)
            .dirty(rate, 0.5, seed)
            .dirty,
        rules: datagen::CarGenerator::rules(),
        config: CleanConfig::default().with_tau(1),
    }
}

impl Table {
    /// With the AGP distance guard at 0.15, as the comparison experiments
    /// run.
    pub fn guarded(mut self) -> Self {
        self.label += " guarded";
        self.config = self.config.with_agp_distance_guard(0.15);
        self
    }

    /// The table inserted in batches of each of `sizes` rows.
    pub fn inserts(&self, sizes: &[usize]) -> Vec<Stream> {
        let stream = |&rows: &usize| {
            let steps = ChangeSet::insert_batches(&self.dirty, rows).collect();
            self.stream(format!("in batches of {rows}"), steps, rows as u64)
        };
        sizes.iter().map(stream).collect()
    }

    /// One random stream per seed: `base` rows inserted, then `rounds`
    /// rounds of mutations.
    pub fn random(&self, base: usize, rounds: usize, seeds: &[u64]) -> Vec<Stream> {
        let stream = |&seed: &u64| {
            let steps = random_scripts(&self.dirty, base, rounds, seed);
            self.stream(format!("random {seed:#x}"), steps, seed)
        };
        seeds.iter().map(stream).collect()
    }

    /// `n` random streams, their seeds drawn below 10 000 from `seed`.
    pub fn randoms(&self, base: usize, rounds: usize, n: usize, seed: u64) -> Vec<Stream> {
        let mut rng = Rng::seeded(seed);
        let seeds: Vec<u64> = (0..n).map(|_| rng.below(10_000) as u64).collect();
        self.random(base, rounds, &seeds)
    }

    /// Replay `steps` on plain rows and batch-clean the net table after
    /// each.
    fn stream(&self, what: String, steps: Vec<ChangeSet>, seed: u64) -> Stream {
        let mut net: Vec<Vec<String>> = Vec::new();
        let (mut counts, mut expected) = (Vec::new(), Vec::new());
        for changes in &steps {
            let mut count = [0; 4];
            for mutation in changes.iter() {
                match mutation {
                    Mutation::Insert(rows) => {
                        count[0] += rows.len();
                        net.extend(rows.iter().cloned());
                    }
                    Mutation::Update(t, a, v) => {
                        let cell = &mut net[t.index()][a.index()];
                        count[1] += usize::from(cell != v);
                        cell.clone_from(v);
                    }
                    Mutation::Delete(t) => {
                        net.remove(t.index());
                        count[2] += 1;
                    }
                }
            }
            count[3] = net.len();
            counts.push(count);
            let mut table = Dataset::new(self.dirty.schema().clone());
            table.extend_rows(net.clone()).expect("net rows fit");
            let batch = MlnClean::new(self.config.clone()).clean(&table, &self.rules);
            expected.push(batch.expect("the net table cleans"));
        }
        Stream {
            label: format!("{} {what}", self.label),
            of: self.clone(),
            cut: Rng::seeded(seed).below(steps.len()),
            steps,
            counts,
            expected,
            seed,
        }
    }
}

/// Every mutation kind, ids resolved through the shifting numbering: heal
/// a typo and break a cell, delete a row and flip one out of the CFD block,
/// re-insert two rows beside a delete and an update, and retract most rows
/// around an update.
pub fn hospital_script() -> Vec<Stream> {
    let table = hospital();
    let schema = table.dirty.schema();
    let [ct, st, hn] = ["CT", "ST", "HN"].map(|a| schema.attr_id(a).unwrap());
    let rows: Vec<Vec<String>> = table.dirty.tuples().map(|t| t.owned_values()).collect();
    let steps = vec![
        ChangeSet::inserting(rows.clone()),
        ChangeSet::new()
            .update(TupleId(1), ct, "DOTHAN")
            .update(TupleId(0), st, "AK"),
        ChangeSet::new()
            .delete(TupleId(0))
            .update(TupleId(1), hn, "ALABAMA"),
        ChangeSet::new()
            .insert(vec![rows[0].clone(), rows[1].clone()])
            .delete(TupleId(2))
            .update(TupleId(4), ct, "BOAZ"),
        ChangeSet::new()
            .delete(TupleId(0))
            .update(TupleId(0), st, "AL")
            .delete(TupleId(1))
            .delete(TupleId(2)),
    ];
    vec![table.stream("script".into(), steps, 0x5C2197)]
}

/// The coordinator's (partitions, K) shapes.
pub const SHAPES: [(usize, usize); 7] = [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 1), (4, 3)];

/// A column: one execution plan.
#[derive(Debug, Clone)]
enum Column {
    /// One session; `budget` caps it at 1 byte, `suspend` snapshots it
    /// through the codec before the stream's cut and resumes the snapshot.
    Session {
        parallel: bool,
        per_step: bool,
        budget: bool,
        suspend: bool,
    },
    /// The streaming coordinator over in-process partitions, an outcome
    /// per step.
    Coordinator {
        partitions: usize,
        merge_every: usize,
        parallel: bool,
    },
    /// The coordinator over workers behind a simulated network; a schedule
    /// with crashes also crashes every worker at the stream's cut.
    Wire {
        partitions: usize,
        merge_every: usize,
        schedule: FaultSchedule,
    },
}

/// A family of columns: the slice of the matrix's plans a test runs.
#[derive(Debug, Clone, Copy)]
pub enum Plans {
    /// Sessions, serial and parallel, with and without an outcome per step.
    Sessions,
    /// The per-step session under a 1-byte memory budget, serial and
    /// parallel.
    Budgeted,
    /// Suspended at the stream's cut and resumed, serial and parallel, with
    /// and without the budget.
    Suspended,
    /// The coordinator, serial and parallel, at every shape of [`SHAPES`].
    Coordinator,
    /// This many of the coordinator's columns, drawn from the stream's seed.
    Shapes(usize),
    /// The six fault classes at every shape, no worker crashed.
    Faults,
    /// A reliable network, then this many seeded fault schedules with
    /// crashes, each at a seeded shape.
    Wire(usize),
}

pub use Plans::*;

/// Every family but the fault classes, two seeded schedules on the wire.
pub const EVERY: [Plans; 5] = [Sessions, Budgeted, Suspended, Coordinator, Wire(2)];

/// The columns of `plans` for `stream`.
fn columns(stream: &Stream, plans: &[Plans]) -> Vec<Column> {
    let mut columns = Vec::new();
    for &plan in plans {
        for parallel in [false, true] {
            let session = |per_step, budget, suspend| Column::Session {
                parallel,
                per_step,
                budget,
                suspend,
            };
            match plan {
                Sessions => {
                    columns.extend([session(false, false, false), session(true, false, false)])
                }
                Budgeted => columns.push(session(true, true, false)),
                Suspended => {
                    columns.extend([session(true, false, true), session(true, true, true)])
                }
                _ => {}
            }
        }
        let coordinators = [false, true].into_iter().flat_map(|parallel| {
            SHAPES.map(|(partitions, merge_every)| Column::Coordinator {
                partitions,
                merge_every,
                parallel,
            })
        });
        let wire = |(partitions, merge_every), schedule| Column::Wire {
            partitions,
            merge_every,
            schedule,
        };
        match plan {
            Coordinator => columns.extend(coordinators),
            Shapes(n) => {
                let mut coordinators: Vec<Column> = coordinators.collect();
                Rng::seeded(stream.seed).shuffle(&mut coordinators);
                columns.extend(coordinators.into_iter().take(n));
            }
            Faults => {
                for schedule in fault_classes() {
                    columns.extend(SHAPES.map(|shape| wire(shape, schedule.clone())));
                }
            }
            Wire(schedules) => {
                let mut mix = Rng::seeded(stream.seed);
                let shape = SHAPES[mix.below(SHAPES.len())];
                columns.push(wire(shape, FaultSchedule::reliable()));
                for _ in 0..schedules {
                    let shape = SHAPES[mix.below(SHAPES.len())];
                    columns.push(wire(shape, seeded_schedule(&mut mix, shape.0)));
                }
            }
            _ => {}
        }
    }
    columns
}

/// The fault classes: a reliable network, then delay, reordering,
/// duplication and loss alone, and all four with two link outages.
fn fault_classes() -> Vec<FaultSchedule> {
    let outage = |b, from, until| LinkOutage {
        a: COORDINATOR,
        b,
        from,
        until,
    };
    let classes = [
        (0, (0, 0), 0.0, 0.0, 0.0),
        (101, (1, 12), 0.0, 0.0, 0.0),
        (102, (0, 6), 0.4, 0.0, 0.0),
        (103, (0, 3), 0.0, 0.4, 0.0),
        (104, (0, 3), 0.0, 0.0, 0.3),
        (105, (1, 8), 0.25, 0.25, 0.2),
    ];
    let class = |(seed, delay, reorder, duplicate, loss)| FaultSchedule {
        seed,
        delay,
        reorder,
        duplicate,
        loss,
        outages: match seed {
            105 => vec![outage(1, 5, 60), outage(2, 30, 90)],
            _ => Vec::new(),
        },
        crashes: Vec::new(),
    };
    classes.map(class).into()
}

/// Delay, reordering, duplication and loss, one link outage and one to
/// three scheduled crashes, each drawn from `mix`.
fn seeded_schedule(mix: &mut Rng, partitions: usize) -> FaultSchedule {
    let outage = mix.below(30) as u64;
    FaultSchedule {
        seed: mix.next_u64(),
        delay: (mix.below(3) as u64, 2 + mix.below(10) as u64),
        reorder: mix.below(5) as f64 / 10.0,
        duplicate: mix.below(5) as f64 / 10.0,
        loss: mix.below(4) as f64 / 10.0,
        outages: vec![LinkOutage {
            a: COORDINATOR,
            b: 1 + mix.below(partitions),
            from: outage,
            until: outage + 10 + mix.below(50) as u64,
        }],
        crashes: (0..1 + mix.below(3))
            .map(|_| WorkerCrash {
                at: 1 + mix.below(20) as u64,
                worker: mix.below(partitions),
            })
            .collect(),
    }
}

/// What the driver calls on every plan.
trait Plan {
    fn apply(&mut self, changes: ChangeSet) -> BatchReport;
    fn outcome(&mut self) -> Report;
    fn partition_sizes(&self) -> Vec<usize>;
}

impl Plan for CleaningSession {
    fn apply(&mut self, changes: ChangeSet) -> BatchReport {
        CleaningSession::apply(self, changes).expect("the stream is valid")
    }

    fn outcome(&mut self) -> Report {
        CleaningSession::outcome(self)
    }

    fn partition_sizes(&self) -> Vec<usize> {
        vec![self.len()]
    }
}

impl<B: PartitionBackend> Plan for DistributedStreamingSession<B> {
    fn apply(&mut self, changes: ChangeSet) -> BatchReport {
        DistributedStreamingSession::apply(self, changes).expect("the stream is valid")
    }

    fn outcome(&mut self) -> Report {
        DistributedStreamingSession::outcome(self)
    }

    fn partition_sizes(&self) -> Vec<usize> {
        DistributedStreamingSession::partition_sizes(self)
    }
}

/// Feed `stream`'s `steps` to `plan`: each batch report carries its ordinal
/// and counts what the net table saw, the partitions hold every row, and
/// with `per_step` each outcome equals the oracle's.
fn drive(stream: &Stream, plan: &mut impl Plan, steps: Range<usize>, per_step: bool, label: &str) {
    for step in steps {
        let at = format!("{label} step {step}");
        let report = plan.apply(stream.steps[step].clone());
        assert_eq!(report.batch, step + 1, "{at}: batch ordinal");
        let counts = [
            report.rows,
            report.updated_cells,
            report.deleted_rows,
            report.total_rows,
        ];
        assert_eq!(counts, stream.counts[step], "{at}: batch report");
        assert!(report.dirty_blocks <= report.total_blocks, "{at}");
        let held: usize = plan.partition_sizes().iter().sum();
        assert_eq!(held, report.total_rows, "{at}: partition sizes");
        if per_step {
            assert_outcomes_identical(&at, &plan.outcome(), &stream.expected[step]);
        }
    }
}

/// Run one cell and check its last outcome against the oracle; returns a
/// wire cell's datagrams dropped, duplicated and retransmitted and the
/// restarts its schedule caused.
fn check(stream: &Stream, column: &Column) -> [u64; 4] {
    let Table {
        dirty,
        rules,
        config,
        ..
    } = stream.of.clone();
    let (schema, n) = (dirty.schema().clone(), stream.steps.len());
    let label = format!("{} × {column:?}", stream.label);
    let mut tallies = [0; 4];
    let (last, partitions) = match column.clone() {
        Column::Session {
            parallel,
            per_step,
            budget,
            suspend,
        } => {
            let mut config = config.with_parallel(parallel);
            if budget {
                config = config.with_memory_budget(1);
            }
            let mut session = CleaningSession::new(config.clone(), schema, rules.clone()).unwrap();
            let cut = if suspend { stream.cut } else { n };
            drive(stream, &mut session, 0..cut, per_step, &label);
            if suspend {
                let frame = mlnw::to_bytes(&session.snapshot()).expect("snapshots encode");
                let snapshot: SessionSnapshot = mlnw::from_bytes(&frame).expect("and decode");
                session = CleaningSession::resume(config, rules, snapshot).expect("and resume");
                drive(stream, &mut session, cut..n, per_step, &label);
            }
            let last = session.outcome();
            let stats = session.memory_stats();
            if budget {
                assert!(stats.dropped_memos > 0, "{label}: no memo dropped");
                assert!(stats.evicted_fusions > 0, "{label}: no fusion evicted");
                assert_eq!(session.resident_estimate(), 0, "{label}");
            } else {
                assert_eq!(stats, MemoryStats::default(), "{label}: shed unbudgeted");
            }
            (last, None)
        }
        Column::Coordinator {
            partitions,
            merge_every,
            parallel,
        } => {
            let config = config.with_parallel(parallel);
            let mut session =
                DistributedStreamingSession::new(config, schema, rules, partitions, merge_every)
                    .unwrap();
            drive(stream, &mut session, 0..n, true, &label);
            (session.finish(), Some(partitions))
        }
        Column::Wire {
            partitions,
            merge_every,
            schedule,
        } => {
            let crashing = !schedule.crashes.is_empty();
            let mut session =
                wire_session(config, schema, rules, partitions, merge_every, schedule).unwrap();
            let cut = if crashing { stream.cut } else { n };
            drive(stream, &mut session, 0..cut, false, &label);
            if crashing {
                for worker in 0..partitions {
                    session.backend_mut().crash_worker(worker);
                }
                drive(stream, &mut session, cut..n, false, &label);
            }
            let c = session.backend_mut().counters();
            assert_eq!(
                c.sent - c.dropped + c.duplicated,
                c.delivered + c.in_flight,
                "{label}: transport counters do not balance: {c:?}"
            );
            assert!(c.bytes_sent > 0, "{label}: no bytes crossed the codec");
            let restarts = session.backend_mut().total_restarts();
            let at_cut = if crashing { partitions } else { 0 };
            assert!(restarts >= at_cut, "{label}: a crashed worker stayed down");
            let scheduled = (restarts - at_cut) as u64;
            assert!(
                crashing || scheduled == 0,
                "{label}: an uncrashed worker restarted"
            );
            tallies = [c.dropped, c.duplicated, c.retransmits, scheduled];
            (session.finish(), Some(partitions))
        }
    };
    assert_outcomes_identical(&label, &last, &stream.expected[n - 1]);
    let parts = last.partitions.as_ref().map(|parts| &parts.parts);
    assert_eq!(parts.map(Vec::len), partitions, "{label}: partition report");
    if let Some(parts) = parts {
        let mut rows: Vec<TupleId> = parts.concat();
        rows.sort_unstable();
        let every: Vec<TupleId> = (0..last.repaired.len()).map(TupleId).collect();
        assert_eq!(rows, every, "{label}: partitions must hold every row once");
        assert!(last.timings.merge_rounds >= 1, "{label}: no merge round");
    }
    tallies
}

/// Run every column of `plans` on every stream; returns the wire tallies
/// summed.
pub fn check_all(streams: &[Stream], plans: &[Plans]) -> [u64; 4] {
    let mut totals = [0; 4];
    for stream in streams {
        for column in columns(stream, plans) {
            let tallies = check(stream, &column);
            (0..4).for_each(|i| totals[i] += tallies[i]);
        }
    }
    totals
}

/// A table of matrix slices, one `#[test]` a line: `name: [rows..] =>
/// plans;` runs every family in `plans` on every stream the row
/// constructors yield.
macro_rules! cells {
    ($($(#[$doc:meta])* $name:ident: [$($rows:expr),+] => $plans:expr;)+) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            let streams: Vec<_> = [$($rows),+].into_iter().flatten().collect();
            $crate::matrix::check_all(&streams, &$plans);
        }
    )+};
}
