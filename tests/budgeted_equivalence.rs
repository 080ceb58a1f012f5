//! The engine matrix's budgeted and suspended slices
//! (`kit/engine_matrix.rs`): a session under a 1-byte memory budget, which
//! drops every memo and evicts every fusion at each enforcement point, and
//! one suspended through `mlnw` mid-stream and resumed, its batch ordinals
//! continuing.  Beside them, an empty session's snapshot resumes.

#[macro_use]
#[path = "kit/engine_matrix.rs"]
mod matrix;

use matrix::*;
use mlnclean::{CleanConfig, CleaningSession, SessionSnapshot};

cells! {
    hospital_budgeted_run_is_byte_identical:
        [hospital_script(), hospital().inserts(&[5])] => [Budgeted];
    seeded_hai_budgeted_run_is_byte_identical: [
        hai(240, 12, 0.08, 7).guarded().inserts(&[16]),
        hai(240, 12, 0.08, 7).guarded().randoms(200, 8, 1, 0xB0D6)
    ] => [Budgeted];
    seeded_car_budgeted_run_is_byte_identical: [
        car(240, 0.08, 11).guarded().inserts(&[16]),
        car(240, 0.08, 11).guarded().randoms(200, 8, 1, 0xB0D7)
    ] => [Budgeted];
    /// Cut at each stream's seeded step.
    suspend_resume_mid_stream_is_byte_identical: [
        hai(200, 10, 0.08, 3).inserts(&[16]),
        hospital_script(),
        hai(150, 8, 0.08, 7).randoms(110, 6, 1, 0x5005),
        car(160, 0.06, 5).guarded().randoms(120, 6, 1, 0x5006)
    ] => [Suspended];
}

/// An empty session snapshots and resumes too (the degenerate checkpoint a
/// worker may take before its first batch).
#[test]
fn empty_snapshot_resumes() {
    let dirty = dataset::sample_hospital_dataset();
    let rules = rules::sample_hospital_rules();
    let session = CleaningSession::new(
        CleanConfig::default(),
        dirty.schema().clone(),
        rules.clone(),
    )
    .unwrap();
    let frame = mlnw::to_bytes(&session.snapshot()).unwrap();
    let snapshot: SessionSnapshot = mlnw::from_bytes(&frame).unwrap();
    let resumed = CleaningSession::resume(CleanConfig::default(), rules, snapshot).unwrap();
    assert!(resumed.is_empty());
    assert_eq!(resumed.batches(), 0);
}
