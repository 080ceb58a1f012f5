//! The equivalence suites' one oracle: two reports agree byte for byte.

use dataset::csv;
use mlnclean::Report;

/// Byte-level comparison of two outcomes: output CSVs plus full provenance.
pub fn assert_outcomes_identical(label: &str, a: &Report, b: &Report) {
    assert_eq!(
        csv::to_csv(&a.repaired),
        csv::to_csv(&b.repaired),
        "{label}: repaired CSV diverged"
    );
    assert_eq!(
        csv::to_csv(a.deduplicated()),
        csv::to_csv(b.deduplicated()),
        "{label}: deduplicated CSV diverged"
    );
    assert_eq!(a.agp, b.agp, "{label}: AGP provenance diverged");
    assert_eq!(a.rsc, b.rsc, "{label}: RSC provenance diverged");
    assert_eq!(a.fscr, b.fscr, "{label}: FSCR provenance diverged");
}
