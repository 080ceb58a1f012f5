//! Experiment driver: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- all
//! cargo run -p bench --release --bin experiments -- fig6 --scale small
//! cargo run -p bench --release --bin experiments -- table6 --scale full --out results
//! cargo run -p bench --release --bin experiments -- ladder --max-rows 100000
//! ```

// One JSON writer: clippy.toml bans `concat!`, the hand-indented template.
#![deny(clippy::disallowed_macros)]

use bench::{Experiment, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <fig6|fig7|fig8|...|fig15|table5|table6|smoke|ladder|all> \
         [--scale tiny|small|full] [--out DIR] [--max-rows N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    let mut experiments: Option<Vec<Experiment>> = None;
    let mut scale = Scale::Small;
    let mut out_dir = PathBuf::from("results");
    let mut max_rows: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Some(parsed) = Scale::parse(value) else {
                    eprintln!("unknown scale {value:?}");
                    return usage();
                };
                scale = parsed;
                i += 2;
            }
            "--out" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                out_dir = PathBuf::from(value);
                i += 2;
            }
            "--max-rows" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(parsed) = value.parse::<usize>() else {
                    eprintln!("invalid --max-rows {value:?}");
                    return usage();
                };
                max_rows = Some(parsed);
                i += 2;
            }
            other => {
                let Some(parsed) = Experiment::parse(other) else {
                    eprintln!("unknown experiment {other:?}");
                    return usage();
                };
                experiments = Some(parsed);
                i += 1;
            }
        }
    }

    let Some(experiments) = experiments else {
        return usage();
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output directory {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    for experiment in experiments {
        println!(
            "### running {} (scale {:?}) ###\n",
            experiment.name(),
            scale
        );
        let started = std::time::Instant::now();
        let files = experiment.run_with(scale, max_rows);
        for (name, contents) in files {
            let path = out_dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        println!(
            "\n### {} finished in {:.1}s ###\n",
            experiment.name(),
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
