//! The equivalence suites' one oracle: two reports agree byte for byte.

use dataset::csv;
use mlnclean::Report;

/// Two outcomes agree: the same repaired and deduplicated tables (equal
/// datasets write equal CSV bytes; a mismatch prints both CSVs) and the
/// same AGP/RSC/FSCR provenance.
pub fn assert_outcomes_identical(label: &str, a: &Report, b: &Report) {
    let tables = [
        ("repaired", &a.repaired, &b.repaired),
        ("deduplicated", a.deduplicated(), b.deduplicated()),
    ];
    for (what, x, y) in tables {
        assert!(
            x == y,
            "{label}: {what} CSV diverged:\n{}\n≠\n{}",
            csv::to_csv(x),
            csv::to_csv(y)
        );
    }
    assert_eq!(a.agp, b.agp, "{label}: AGP provenance diverged");
    assert_eq!(a.rsc, b.rsc, "{label}: RSC provenance diverged");
    assert_eq!(a.fscr, b.fscr, "{label}: FSCR provenance diverged");
}
