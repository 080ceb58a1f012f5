//! The repo benchmark: four single-threaded workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from traced ones.  See README.md.

mod calib;
mod inputs;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::END_TO_END;
use run::{Options, RunResult};
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--scale <f>] [--selfcheck]
  --workload   one of tpch_batch, hai_batch, car_session, tpch_wire (default: all four, one
               child process each)
  --seed       seed of every generator and of the fault schedule (default 1)
  --seconds    length of the measured window (default 25)
  --trace      1: trace some of the passes and print the per-layer metrics (default 0)
  --scale      multiplier on row counts and batch sizes (default 1.0)
  --selfcheck  two sets of 3 untraced runs of every workload on one seed; fails if a metric's
               two medians differ by more than its same-seed bound (f1: at all)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    selfcheck: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: 1.0,
        selfcheck: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: {text:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let text = value("a seed")?;
                cli.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: {text:?} is not a u64"))?;
            }
            "--seconds" => cli.seconds = number(value("a duration")?)?,
            "--scale" => cli.scale = number(value("a multiplier")?)?,
            "--selfcheck" => cli.selfcheck = true,
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.selfcheck && cli.trace {
        return Err("--selfcheck compares untraced runs".into());
    }
    Ok(cli)
}

/// One line per metric, then the share of operations that failed — which has
/// no bound and so is not among the metrics: it must be 0.
fn print_result(workload: Workload, result: &RunResult) {
    let name = workload.name();
    for &(metric, value, unit) in &result.metrics {
        match value {
            Some(value) => println!("{name:<12} {metric:<34} {value:>16.6} {unit}"),
            None => println!("{name:<12} {metric:<34} {:>16} {unit}", "-"),
        }
    }
    let failed_share = result.failed as f64 / result.attempted as f64;
    println!(
        "{name:<12} {:<34} {failed_share:>16.6} ratio ({} failed of {} attempted)",
        "failed_share", result.failed, result.attempted
    );
}

/// Run one workload in a child process of its own — its peak RSS is then its
/// own — and return what it printed and its result line.
fn run_child(workload: Workload, cli: &Cli) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .args(["--scale", &cli.scale.to_string()])
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {} child failed", workload.name()));
    }
    let (printed, last) = stdout.trim_end().rsplit_once('\n').unwrap_or_default();
    let result =
        Json::parse(last).map_err(|e| format!("the {} child's result: {e}", workload.name()))?;
    Ok((printed.to_string(), result))
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_of(result: &Json) -> f64 {
    result
        .get("failed")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Every workload, one child each; prints what the children print and one
/// JSON line holding the four results.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut results = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let (printed, result) = run_child(workload, cli)?;
        println!("{printed}");
        correct &= failed_of(&result) == 0.0;
        results.push((workload.name().to_string(), result));
    }
    println!("{}", Json::Obj(results).to_line());
    Ok(correct)
}

/// Full runs in each of the two sets `--selfcheck` compares.
const SELFCHECK_RUNS: usize = 3;

/// Two sets of full untraced runs of this binary on one seed; per metric and
/// workload both medians, their gap as a share of the first, and the gap the
/// metric may show between runs of one input.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 0..2 {
        // values[workload][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
        for run in 0..SELFCHECK_RUNS {
            for (w, &workload) in Workload::ALL.iter().enumerate() {
                let (_, result) = run_child(workload, cli)?;
                if failed_of(&result) != 0.0 {
                    return Err(format!("{}: failed operations", workload.name()));
                }
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = metric_of(&result, metric.name)
                        .ok_or_else(|| format!("{}: no {}", workload.name(), metric.name))?;
                    values[w][m].push(value);
                }
                eprintln!("set {set} run {run} {} done", workload.name());
            }
        }
        sets.push(values);
    }

    let mut within = true;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "gap", "allowed"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let a = stats::median(&sets[0][w][m]);
            let b = stats::median(&sets[1][w][m]);
            let gap = (b - a).abs() / a;
            let ok = gap <= metric.same_seed;
            within &= ok;
            println!(
                "{:<12} {:<14} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%{}",
                workload.name(),
                metric.name,
                gap * 100.0,
                metric.same_seed * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!(
        "failed_share 0 in all {} runs",
        2 * SELFCHECK_RUNS * Workload::ALL.len()
    );
    Ok(within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if cli.selfcheck {
        selfcheck(&cli)
    } else if let Some(workload) = cli.workload {
        let options = Options {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            scale: cli.scale,
        };
        // A run that ends prints its result and succeeds; failed operations
        // are in the result.
        run::run(&options).map(|run| {
            run.write_detail();
            print_result(workload, &run.result);
            println!("{}", run.result.to_json().to_line());
            true
        })
    } else {
        run_all(&cli)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
