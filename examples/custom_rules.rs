//! Domain example 4 — bring your own data and rules: parse a rule file, load
//! a CSV dataset, clean it, and write the repaired CSV back out.  This is the
//! workflow a downstream user of the library follows on their own data.
//!
//! ```text
//! cargo run -p mlnclean --example custom_rules [input.csv rules.txt output.csv]
//! ```
//!
//! Without arguments, the example writes a small address book to a temporary
//! directory and cleans that, so it is runnable out of the box.

use dataset::csv::{read_csv_file, write_csv_file};
use mlnclean::{CleanConfig, MlnClean};
use rules::parse_rules;
use std::path::PathBuf;

fn demo_files() -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join("mlnclean-custom-rules-demo");
    std::fs::create_dir_all(&dir).expect("create demo directory");

    let input = dir.join("addresses.csv");
    std::fs::write(
        &input,
        "name,city,state,zip\n\
         Ada Lovelace,SEATTLE,WA,98101\n\
         Grace Hopper,SEATTLE,WA,98101\n\
         Alan Turing,SEATLE,WA,98101\n\
         Edsger Dijkstra,PORTLAND,OR,97201\n\
         Barbara Liskov,PORTLAND,OR,97201\n\
         Donald Knuth,PORTLAND,OK,97201\n",
    )
    .expect("write demo CSV");

    let rules_path = dir.join("rules.txt");
    std::fs::write(
        &rules_path,
        "# a city determines its state, a zip determines its city\n\
         FD: city -> state\n\
         FD: zip -> city\n\
         DC: zip = zip, state != state\n",
    )
    .expect("write demo rules");

    (input, rules_path, dir.join("addresses_clean.csv"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input, rules_path, output) = if args.len() == 3 {
        (
            PathBuf::from(&args[0]),
            PathBuf::from(&args[1]),
            PathBuf::from(&args[2]),
        )
    } else {
        demo_files()
    };

    let dirty = read_csv_file(&input).expect("readable CSV input");
    let rule_text = std::fs::read_to_string(&rules_path).expect("readable rule file");
    let rules = parse_rules(&rule_text).expect("well-formed rules");
    println!(
        "loaded {} tuples from {} and {} rules from {}",
        dirty.len(),
        input.display(),
        rules.len(),
        rules_path.display()
    );

    let cleaner = MlnClean::new(CleanConfig::default().with_tau(1));
    let outcome = cleaner
        .clean(&dirty, &rules)
        .expect("rules match the schema");

    println!("\nrepairs applied:");
    let names = outcome
        .fscr
        .changes
        .names()
        .expect("a report names its records");
    for change in &outcome.fscr.changes {
        let (old, new) = (names.value(change.old), names.value(change.new));
        println!("  {}: {old:?} -> {new:?}", change.cell);
    }

    write_csv_file(&outcome.repaired, &output).expect("writable CSV output");
    println!("\nwrote the repaired dataset to {}", output.display());
}
