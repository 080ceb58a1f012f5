//! One run of one workload: the measured window, the output checks, and the
//! metrics that come out of it.

use crate::calib::{kernel_s, NOMINAL_S};
use crate::inputs::{self, Inputs};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, percentile, samples_json};
use crate::trace::{Mode, Tracer};
use crate::workloads::{staged_clean, Batch, Digest, Ops, Scenario, Session, Wire, Workload};
use dataset::{RepairEvaluation, RepairReport};
use mlnclean::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed iterations a run makes at least, however short `--seconds` is, and
/// the ones after which it reads its peak RSS.
const MIN_TIMED: usize = 5;
/// Passes on two threads behind `rayon.speedup_2t`.
const TWO_THREAD_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Multiplier on every row count and batch size.
    pub scale: f64,
}

#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Name, value and unit: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.  `None`: the layer is not on this
    /// workload's path, so the run did not measure it.
    pub metrics: Vec<(&'static str, Option<f64>, &'static str)>,
}

impl RunResult {
    /// The result line the driver reads.  Its contract wants a number for
    /// every per-layer metric in a traced result and keeps no bound on them
    /// (README, "The driver's contract"), so an unmeasured one reads 0 here
    /// and nowhere else: the printed lines say `-`, the detail file names it
    /// under `not_measured`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let fields = vec![
                    ("value".into(), Json::Num(value.unwrap_or(0.0))),
                    ("unit".into(), Json::Str(unit.into())),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// A finished run: the result line, and the detail file with every sample.
#[derive(Debug)]
pub struct Run {
    pub result: RunResult,
    /// File name under `out/`: `<workload>.json`, or `trace-<workload>.json`
    /// for a traced run, which also holds the spans.
    pub detail_file: String,
    pub detail: Json,
}

impl Run {
    /// Write the detail file to `out/` beside this package's manifest, inside
    /// the checkout the binary was built in.  The result does not depend on
    /// it, so a failure is only reported.
    pub fn write_detail(&self) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(&self.detail_file);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, self.detail.to_pretty()));
        if let Err(error) = written {
            eprintln!("could not write {}: {error}", file.display());
        }
    }
}

/// The process's resident-set high-water mark.
fn read_peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn run(options: &Options) -> Result<Run, String> {
    // One thread: on a shared two-core machine two-thread medians spread four
    // times wider than one-thread ones (README, "Noise").
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let inputs = inputs::generate(options.workload, options.seed, options.scale);
    match options.workload {
        Workload::TpchBatch | Workload::HaiBatch => measure(&Batch(&inputs), &inputs, options),
        Workload::CarSession => measure(&Session(&inputs), &inputs, options),
        Workload::TpchWire => measure(&Wire(&inputs), &inputs, options),
    }
}

/// A wall-clock time and the same time relative to the calibration kernel
/// (see `calib`).
#[derive(Debug, Clone, Copy)]
struct Timed {
    raw_s: f64,
    normalised_s: f64,
}

impl Timed {
    fn new(raw_s: f64, kernel_s: f64) -> Timed {
        Timed {
            raw_s,
            normalised_s: raw_s / kernel_s * NOMINAL_S,
        }
    }
}

fn raw(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(|t| t.raw_s).collect()
}

fn normalised(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(|t| t.normalised_s).collect()
}

/// One iteration: `reps` set-ups from scratch, then the pass.
struct Iteration {
    /// Mean wall-clock time of one set-up.
    setup_s: f64,
    pass_s: f64,
    report: Report,
}

fn iterate<S: Scenario>(
    scenario: &S,
    reps: usize,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Option<Iteration> {
    let mut setups_s = 0.0;
    let mut ready = None;
    for _ in 0..reps {
        // The clock stands still while the previous set-up is dropped and the
        // next one's inputs are made, so one harness copy is alive at a time
        // and the process's peak RSS is the product's.
        drop(ready.take());
        let fresh = scenario.fresh();
        let started = Instant::now();
        ready = Some(tracer.span("setup", |tracer| scenario.setup(fresh, tracer, ops))?);
        setups_s += started.elapsed().as_secs_f64();
    }

    let started = Instant::now();
    let report = tracer.span("pass", |tracer| scenario.pass(ready?, tracer, ops))?;
    let pass_s = started.elapsed().as_secs_f64();

    Some(Iteration {
        setup_s: setups_s / reps as f64,
        pass_s,
        report,
    })
}

fn measure<S: Scenario>(scenario: &S, inputs: &Inputs, options: &Options) -> Result<Run, String> {
    // What the process held before the product was first called: generating
    // the inputs, and keeping them.  The reported peak cannot be below it.
    let rss_after_inputs_mib = read_peak_rss_mib()?;
    let reps = options.workload.setup_reps();
    let staged_pass = matches!(options.workload, Workload::TpchBatch | Workload::HaiBatch);
    let mut tracer = Tracer::new();
    let mut ops = Ops::default();

    // Iteration 0 warms up and is discarded.  A traced run takes turns between
    // the modes, so every sample set spans the same window.
    let modes: &[Mode] = match (options.trace, staged_pass) {
        (false, _) => &[Mode::Off],
        (true, false) => &[Mode::Off, Mode::On],
        (true, true) => &[Mode::Off, Mode::Dry, Mode::On],
    };
    let min_timed = MIN_TIMED.max(2 * modes.len());
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut dry_passes = Vec::new();
    let mut traced_passes = Vec::new();
    let mut kernels_s = Vec::new();
    let mut expected: Option<(Digest, RepairReport)> = None;
    let mut peak_rss_mib = None;
    let mut window = Instant::now();
    let mut iteration = 0;
    // The kernel runs between iterations, when nothing of the product is
    // alive: its own megabytes never sit on top of the product's.
    let mut kernel_before_s = kernel_s();
    while iteration <= min_timed || window.elapsed().as_secs_f64() < options.seconds {
        if iteration == 1 {
            window = Instant::now();
        }
        let mode = match iteration {
            0 => Mode::Off,
            timed => modes[(timed - 1) % modes.len()],
        };
        tracer.begin_iteration(iteration, mode);
        let Some(done) = iterate(scenario, reps, &mut tracer, &mut ops) else {
            break;
        };
        // Outside the clocks, and allocation-free (see `Digest`).  Every
        // pass's report equals the warm-up pass's — the stage composition's
        // too — so that one is evaluated.
        let digest = Digest::of(&done.report);
        match &expected {
            None => {
                let evaluation = RepairEvaluation::evaluate(&inputs.truth, &done.report.repaired);
                expected = Some((digest, evaluation));
            }
            Some((first, _)) => ops.check(
                "the pass's report equals the warm-up pass's",
                digest == *first,
            ),
        }
        let Iteration {
            setup_s,
            pass_s,
            report,
        } = done;
        drop(report);
        let kernel_after_s = kernel_s();
        if iteration > 0 {
            let kernel_s = (kernel_before_s + kernel_after_s) / 2.0;
            setups.push(Timed::new(setup_s, kernel_s));
            kernels_s.push(kernel_after_s);
            let pass = Timed::new(pass_s, kernel_s);
            match mode {
                Mode::Off => passes.push(pass),
                Mode::Dry => dry_passes.push(pass),
                Mode::On => traced_passes.push(pass),
            }
        }
        // Peak RSS is read after a fixed amount of work: the high-water mark
        // creeps up with the number of passes (127 → 120–137 MiB between 6
        // and some 25 of them on `tpch_batch`), and how many fit the window
        // depends on the machine's state.
        if iteration == MIN_TIMED {
            peak_rss_mib = Some(read_peak_rss_mib()?);
        }
        kernel_before_s = kernel_after_s;
        iteration += 1;
    }
    let (Some((digest, evaluation)), Some(peak_rss_mib)) = (expected, peak_rss_mib) else {
        return Err("an operation failed before the run had its samples".into());
    };

    // The same final table through a second engine.  A traced run uses the
    // stage composition for it, which also gives the session and wire
    // workloads a per-stage breakdown on their own data.
    let reference = if options.trace && !staged_pass {
        tracer.begin_iteration(iteration, Mode::On);
        ops.call("parse_rules", rules::parse_rules(inputs.rule_text))
            .and_then(|rules| {
                let (table, config) = (&inputs.truth.dirty, &inputs.config);
                staged_clean(table, &rules, config, &mut tracer, &mut ops)
            })
    } else {
        scenario.reference(&mut ops)
    };
    if let Some(reference) = reference {
        ops.check(
            "the pass's report equals the reference engine's",
            Digest::of(&reference) == digest,
        );
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&normalised(&setups)));
    values.insert("pass_s", median(&normalised(&passes)));
    values.insert("peak_rss_mib", peak_rss_mib);
    values.insert("f1", evaluation.f1());
    values.insert("evaluation.precision", evaluation.precision());
    values.insert("evaluation.recall", evaluation.recall());

    let mut two_thread_passes = Vec::new();
    if options.trace {
        let probed = probes::run(inputs, options.seed);
        ops.check("the lower-layer probes ran", probed.is_some());
        values.extend(probed.into_iter().flatten());

        if staged_pass {
            // Informational: the same engine pass on two threads.
            std::env::set_var("RAYON_NUM_THREADS", "2");
            tracer.begin_iteration(iteration + 1, Mode::Off);
            for _ in 0..TWO_THREAD_PASSES {
                let Some(done) = iterate(scenario, reps, &mut tracer, &mut ops) else {
                    break;
                };
                ops.check(
                    "the two-thread report equals the one-thread report",
                    Digest::of(&done.report) == digest,
                );
                two_thread_passes.push(done.pass_s);
            }
            std::env::set_var("RAYON_NUM_THREADS", "1");
            if !two_thread_passes.is_empty() {
                let speedup = median(&raw(&passes)) / median(&two_thread_passes);
                values.insert("rayon.speedup_2t", speedup);
            }
        }
    }
    values.insert("machine.calib_ms", median(&kernels_s) * 1e3);

    if !traced_passes.is_empty() {
        // The same code with the tracer on and off: the stage composition on
        // a batch workload, the workload's own pass elsewhere.
        let untraced = if staged_pass { &dry_passes } else { &passes };
        if !untraced.is_empty() {
            let overhead = median(&normalised(&traced_passes)) / median(&normalised(untraced));
            values.insert("trace.overhead_pct", (overhead - 1.0) * 100.0);
        }
        // Layers are timed in plain wall-clock time, so they add up to the
        // raw median of the engine's passes.
        let raw_pass_s = median(&raw(&passes));
        layer_values(
            &tracer,
            inputs,
            staged_pass.then_some(raw_pass_s),
            &mut values,
        );
    }

    let metrics: Vec<_> = if options.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied(), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, Some(values[m.name]), m.unit))
            .collect()
    };
    let not_measured = metrics
        .iter()
        .filter(|m| m.1.is_none())
        .map(|m| Json::Str(m.0.into()))
        .collect();
    let result = RunResult {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    };

    let name = options.workload.name();
    let mut detail = vec![
        ("workload".into(), Json::Str(name.into())),
        ("seed".into(), Json::Num(options.seed as f64)),
        ("scale".into(), Json::Num(options.scale)),
        ("seconds".into(), Json::Num(options.seconds)),
        ("traced".into(), Json::Bool(options.trace)),
        ("threads".into(), Json::Num(1.0)),
        ("rows".into(), Json::Num(inputs.rows as f64)),
        ("setup_reps".into(), Json::Num(reps as f64)),
        ("timed_iterations".into(), Json::Num(setups.len() as f64)),
        ("setup_s".into(), samples_json(&normalised(&setups))),
        ("pass_s".into(), samples_json(&normalised(&passes))),
        ("raw_setup_s".into(), samples_json(&raw(&setups))),
        ("raw_pass_s".into(), samples_json(&raw(&passes))),
        ("raw_dry_pass_s".into(), samples_json(&raw(&dry_passes))),
        (
            "raw_traced_pass_s".into(),
            samples_json(&raw(&traced_passes)),
        ),
        (
            "raw_two_thread_pass_s".into(),
            samples_json(&two_thread_passes),
        ),
        ("calib_kernel_s".into(), samples_json(&kernels_s)),
        ("calib_nominal_s".into(), Json::Num(NOMINAL_S)),
        ("peak_rss_mib".into(), Json::Num(peak_rss_mib)),
        (
            "rss_after_inputs_mib".into(),
            Json::Num(rss_after_inputs_mib),
        ),
        ("f1".into(), Json::Num(evaluation.f1())),
        ("not_measured".into(), Json::Arr(not_measured)),
    ];
    detail.push(("result".into(), result.to_json()));
    let mut detail_file = format!("{name}.json");
    if options.trace {
        let spans = tracer.span_names().into_iter().map(|span| {
            let samples = samples_json(&tracer.durations_ms(span));
            (format!("{span}_ms"), samples)
        });
        detail.push(("span_samples".into(), Json::Obj(spans.collect())));
        detail.push(("trace".into(), tracer.to_json()));
        detail_file = format!("trace-{name}.json");
    }
    Ok(Run {
        result,
        detail_file,
        detail: Json::Obj(detail),
    })
}

/// The per-layer values a traced run reads off its spans and counts.  A
/// timing metric is the median of the spans named like it without the unit
/// (`agp.process_ms` ← `agp.process`); a count keeps its name.
fn layer_values(
    tracer: &Tracer,
    inputs: &Inputs,
    engine_pass_s: Option<f64>,
    values: &mut BTreeMap<&'static str, f64>,
) {
    for metric in &PER_LAYER {
        if values.contains_key(metric.name) {
            continue;
        }
        let span_ms = |suffix: &str| {
            let spans = tracer.durations_ms(metric.name.strip_suffix(suffix)?);
            (!spans.is_empty()).then(|| median(&spans))
        };
        let value = span_ms("_ms")
            .or_else(|| span_ms("_us").map(|ms| ms * 1e3))
            .or_else(|| tracer.counted(metric.name));
        if let Some(value) = value {
            values.insert(metric.name, value);
        }
    }

    let ops_ms = tracer.durations_ms("session.op");
    if !ops_ms.is_empty() {
        values.insert("session.op_p90_ms", percentile(&ops_ms, 90.0));
    }
    let ingest_ms = tracer.durations_ms("session.load_ingest");
    if !ingest_ms.is_empty() {
        let rows_per_s = inputs.rows as f64 / (median(&ingest_ms) / 1e3);
        values.insert("session.load_ingest_rows_per_s", rows_per_s);
    }
    if let Some(engine_pass_s) = engine_pass_s {
        // What `MlnClean::clean` spends outside the stages: the session it
        // wraps them in, the `Report` it assembles, the clones on the way.
        let stages = [
            "index.build_ms",
            "agp.process_ms",
            "weights.assign_ms",
            "rsc.clean_ms",
            "fscr.resolve_ms",
            "dataset.dedup_ms",
        ];
        let staged_ms: Option<f64> = stages.iter().map(|stage| values.get(stage)).sum();
        if let Some(staged_ms) = staged_ms {
            values.insert("engine.assembly_ms", engine_pass_s * 1e3 - staged_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, seed: u64, trace: bool) -> Run {
        let options = Options {
            workload,
            seed,
            seconds: 0.0,
            trace,
            scale: 0.01,
        };
        run(&options).expect("the run finishes")
    }

    /// Counts, sizes and ratios the program computes from its inputs; only
    /// the two-thread speed-up among them is a measurement.
    fn exact(run: &Run) -> Vec<(&'static str, f64)> {
        let counted = |unit| matches!(unit, "count" | "bytes" | "ratio");
        run.result
            .metrics
            .iter()
            .filter(|&&(name, _, unit)| counted(unit) && name != "rayon.speedup_2t")
            .filter_map(|&(name, value, _)| Some((name, value?)))
            .collect()
    }

    fn value_of(run: &Run, name: &str) -> Option<f64> {
        run.result.metrics.iter().find(|m| m.0 == name).unwrap().1
    }

    #[test]
    fn every_workload_passes_every_check_at_one_percent_scale() {
        for workload in Workload::ALL {
            let untraced = small(workload, 1, false);
            assert_eq!(untraced.result.failed, 0, "{}", workload.name());
            assert!(untraced.result.attempted >= 2 * (1 + MIN_TIMED as u64));
            let names: Vec<_> = untraced.result.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name));
            for (name, value, _) in &untraced.result.metrics {
                let value = value.expect("every end-to-end metric is measured");
                assert!(value.is_finite() && value > 0.0, "{name} = {value}");
            }
            assert_eq!(untraced.detail_file, format!("{}.json", workload.name()));
            let samples = untraced.detail.get("pass_s").and_then(|s| s.get("samples"));
            assert_eq!(
                samples.and_then(Json::as_array).map(<[_]>::len),
                Some(MIN_TIMED)
            );

            let traced = small(workload, 1, true);
            assert_eq!(traced.result.failed, 0, "{} traced", workload.name());
            let names: Vec<_> = traced.result.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name));
            assert!(traced.detail.get("trace").is_some());
            // Every workload gets the stage breakdown, the probes, the
            // evaluation and the harness's own numbers; its own layers are
            // checked below.
            for name in [
                "dataset.csv_parse_mb_per_s",
                "index.build_ms",
                "index.gammas",
                "agp.process_ms",
                "fscr.resolve_ms",
                "distance.lev_ns_per_pair",
                "mlnw.bytes_per_row",
                "evaluation.precision",
                "machine.calib_ms",
            ] {
                let value = value_of(&traced, name);
                assert!(value > Some(0.0), "{} {name} = {value:?}", workload.name());
            }
            let overhead = value_of(&traced, "trace.overhead_pct");
            assert!(overhead.is_some_and(f64::is_finite), "{overhead:?}");
        }
    }

    #[test]
    fn a_traced_batch_run_compares_the_stage_composition_with_itself() {
        let traced = small(Workload::TpchBatch, 1, true);
        let count = |key: &str| {
            let samples = traced.detail.get(key).and_then(|s| s.get("count"));
            samples.and_then(Json::as_f64)
        };
        assert_eq!(count("raw_pass_s"), Some(2.0));
        assert_eq!(count("raw_dry_pass_s"), Some(2.0));
        assert_eq!(count("raw_traced_pass_s"), Some(2.0));
        // Only the traced passes recorded spans.
        let spans = traced.detail.get("span_samples").unwrap();
        assert_eq!(
            spans.get("agp.process_ms").and_then(|s| s.get("count")),
            Some(&Json::Num(2.0))
        );
    }

    #[test]
    fn each_workload_measures_its_own_layers_and_not_the_others() {
        let own = |workload: Workload, prefix: &str| {
            let run = small(workload, 1, true);
            let layer = run
                .result
                .metrics
                .iter()
                .filter(|m| m.0.starts_with(prefix));
            let measured = layer.filter(|m| m.1.is_some()).count();
            let listed = run.detail.get("not_measured").and_then(Json::as_array);
            let unmeasured = run.result.metrics.iter().filter(|m| m.1.is_none());
            assert_eq!(listed.map(<[_]>::len), Some(unmeasured.count()));
            measured
        };
        assert_eq!(own(Workload::HaiBatch, "session."), 0);
        assert_eq!(own(Workload::HaiBatch, "transport."), 0);
        assert_eq!(own(Workload::HaiBatch, "engine."), 1);
        assert_eq!(own(Workload::HaiBatch, "rayon."), 1);
        assert_eq!(own(Workload::CarSession, "session."), 13);
        assert_eq!(own(Workload::CarSession, "transport."), 0);
        assert_eq!(own(Workload::CarSession, "engine."), 0);
        assert_eq!(own(Workload::TpchWire, "transport."), 8);
        assert_eq!(own(Workload::TpchWire, "distributed."), 5);
        assert_eq!(own(Workload::TpchWire, "session."), 0);
    }

    #[test]
    fn the_result_line_reads_zero_for_an_unmeasured_layer() {
        let result = RunResult {
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("agp.process_ms", Some(1.5), "ms"),
                ("rayon.speedup_2t", None, "ratio"),
            ],
        };
        let line = Json::parse(&result.to_json().to_line()).unwrap();
        let value = |name: &str| line.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(value("agp.process_ms"), Some(1.5));
        assert_eq!(value("rayon.speedup_2t"), Some(0.0));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn exact_counts_repeat_for_a_seed_and_differ_for_another() {
        for workload in Workload::ALL {
            let first = exact(&small(workload, 1, true));
            assert!(first.len() >= 14);
            assert_eq!(
                first,
                exact(&small(workload, 1, true)),
                "{}",
                workload.name()
            );
            assert_ne!(
                first,
                exact(&small(workload, 2, true)),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn f1_repeats_for_a_seed() {
        let a = small(Workload::CarSession, 4, false);
        let b = small(Workload::CarSession, 4, false);
        assert_eq!(value_of(&a, "f1"), value_of(&b, "f1"));
    }
}
