//! A from-scratch reimplementation of the **HoloClean-style** probabilistic
//! repair baseline the paper compares against (Rekatsinas et al., VLDB 2017).
//!
//! The real HoloClean compiles repair signals into a DeepDive factor graph;
//! that software stack is not reproducible here, so this crate implements the
//! same pipeline shape with the same signals:
//!
//! 1. **Error detection** ([`detection`]) — constraint-violation cells, or an
//!    externally supplied "noisy cell" set (the paper sets HoloClean's
//!    detection accuracy to 100% for fairness, i.e. hands it the true
//!    erroneous cells);
//! 2. **Candidate-domain generation** ([`domain`]) — for every noisy cell,
//!    candidate repairs are drawn from the attribute's active domain, pruned
//!    by co-occurrence with the tuple's other values;
//! 3. **Statistical model** ([`features`]) — co-occurrence statistics are
//!    estimated from the *clean* partition of the data only (as HoloClean
//!    trains on cells the detector did not flag);
//! 4. **Probabilistic repair** ([`repair`]) — every candidate is scored by a
//!    log-linear combination of co-occurrence features and
//!    constraint-violation penalties; the argmax becomes the repair.
//!
//! Two properties of the original system that drive the paper's comparison
//! carry over by construction:
//!
//! * repairs are made **one cell at a time**, each requiring a scan over that
//!   cell's candidate set — which is why the baseline is slower than
//!   MLNClean's γ-at-a-time cleaning;
//! * the model is trained on the clean partition only, so **typos** (values
//!   that never occur in the clean partition and erase the evidence the
//!   co-occurrence features rely on) hurt it much more than replacement
//!   errors, especially on sparse data (Figure 7a).

pub mod detection;
pub mod domain;
pub mod features;
pub mod repair;

pub use detection::{detect_noisy_cells, DetectionMode};
pub use domain::CandidateDomain;
pub use features::CooccurrenceModel;
pub use repair::{HoloClean, RepairOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{sample_hospital_dataset, sample_hospital_truth};
    use rules::sample_hospital_rules;

    #[test]
    fn end_to_end_smoke_on_the_paper_sample() {
        let dirty = sample_hospital_dataset();
        let truth = sample_hospital_truth();
        let rules = sample_hospital_rules();
        // Perfect detection: the four truly dirty cells.
        let noisy = dirty.diff_cells(&truth).into_iter().collect();
        let cleaner = HoloClean::new();
        let outcome = cleaner.repair(&dirty, &rules, &noisy);
        assert_eq!(outcome.repaired.len(), dirty.len());
        // HoloClean repairs the schema-level error t4.ST (AK → AL): the clean
        // partition strongly co-occurs BOAZ/2567688400 with AL.
        let st = dirty.schema().attr_id("ST").unwrap();
        assert_eq!(outcome.repaired.value(dataset::TupleId(3), st), "AL");
    }
}
