//! Synthetic HAI (healthcare-associated infections) dataset.
//!
//! The real HAI dataset lists hospital measures: each row pairs a provider
//! (hospital) with one quality measure.  The rule set of Table 4 constrains
//! the provider-side attributes (phone number, ZIP code, city, state, county)
//! and the measure dictionary (MeasureID → MeasureName), which is why HAI is
//! the paper's "dense" dataset — few distinct providers and measures, each
//! repeated across many rows.

use crate::make_dirty;
use crate::stream::{DirtyRowStream, StreamColumn};
use dataset::rng::Rng;
use dataset::{Dataset, DirtyDataset, Schema};
use rules::{parse_rules, RuleSet};

/// Generator for the synthetic HAI dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct HaiGenerator {
    /// Number of distinct providers (hospitals).
    pub providers: usize,
    /// Number of distinct quality measures.
    pub measures: usize,
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HaiGenerator {
    fn default() -> Self {
        HaiGenerator {
            providers: 60,
            measures: 25,
            rows: 2_000,
            seed: 17,
        }
    }
}

const STATES: &[&str] = &[
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA", "HI", "ID", "IL", "IN", "IA", "KS",
    "KY", "LA", "ME", "MD",
];

const CITY_STEMS: &[&str] = &[
    "DOTHAN",
    "BOAZ",
    "BIRMINGHAM",
    "HUNTSVILLE",
    "MOBILE",
    "MONTGOMERY",
    "TUSCALOOSA",
    "AUBURN",
    "DECATUR",
    "FLORENCE",
    "GADSDEN",
    "HOOVER",
    "MADISON",
    "OPELIKA",
    "SELMA",
    "TROY",
];

const COUNTY_STEMS: &[&str] = &[
    "HOUSTON",
    "MARSHALL",
    "JEFFERSON",
    "MADISON",
    "MOBILE",
    "MONTGOMERY",
    "TUSCALOOSA",
    "LEE",
    "MORGAN",
    "LAUDERDALE",
    "ETOWAH",
    "SHELBY",
    "LIMESTONE",
    "DALLAS",
    "PIKE",
    "BALDWIN",
];

const MEASURE_STEMS: &[&str] = &[
    "CLABSI",
    "CAUTI",
    "SSI_COLON",
    "SSI_HYST",
    "MRSA",
    "CDIFF",
    "PSI_90",
    "HAI_1",
    "HAI_2",
    "HAI_3",
    "HAI_4",
    "HAI_5",
    "HAI_6",
    "READM_30",
    "MORT_30",
];

impl HaiGenerator {
    /// Set the number of rows.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Set the number of distinct providers.
    pub fn with_providers(mut self, providers: usize) -> Self {
        self.providers = providers;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The HAI rule set of Table 4.
    pub fn rules() -> RuleSet {
        parse_rules(
            "FD: PhoneNumber -> ZIPCode\n\
             FD: PhoneNumber -> State\n\
             FD: ZIPCode -> City\n\
             FD: MeasureID -> MeasureName\n\
             FD: ZIPCode -> CountyName\n\
             FD: ProviderID -> City, PhoneNumber\n\
             DC: PhoneNumber = PhoneNumber, State != State",
        )
        .expect("the HAI rule set is well-formed")
    }

    /// The HAI schema.
    pub fn schema() -> Schema {
        Schema::new(&[
            "ProviderID",
            "HospitalName",
            "City",
            "State",
            "ZIPCode",
            "CountyName",
            "PhoneNumber",
            "MeasureID",
            "MeasureName",
            "Score",
        ])
    }

    // Provider master data as pure functions of the provider index, so the
    // row stream carries no provider table.  The fields are internally
    // consistent so that every FD holds: each provider has one
    // city/state/zip/county/phone, each zip maps to one city and county,
    // each phone to one zip/state.

    /// Provider id of the `i`-th provider.
    fn provider_id(i: usize) -> String {
        format!("P{:05}", 10_000 + i)
    }

    /// Hospital name of the `i`-th provider.
    fn provider_name(i: usize) -> String {
        format!("{} MEDICAL CENTER {}", CITY_STEMS[i % CITY_STEMS.len()], i)
    }

    /// City of the `i`-th provider — unique per provider so ZIP→City cannot
    /// clash across providers sharing a stem.
    fn provider_city(i: usize) -> String {
        format!(
            "{}{}",
            CITY_STEMS[i % CITY_STEMS.len()],
            i / CITY_STEMS.len()
        )
    }

    /// State of the `i`-th provider.
    fn provider_state(i: usize) -> &'static str {
        STATES[i % STATES.len()]
    }

    /// ZIP code of the `i`-th provider.
    fn provider_zip(i: usize) -> String {
        format!("{:05}", 35000 + i)
    }

    /// County of the `i`-th provider.
    fn provider_county(i: usize) -> String {
        format!(
            "{}{}",
            COUNTY_STEMS[i % COUNTY_STEMS.len()],
            i / COUNTY_STEMS.len()
        )
    }

    /// Phone number of the `i`-th provider.
    fn provider_phone(i: usize) -> String {
        format!("{:010}", 2_560_000_000u64 + i as u64 * 97)
    }

    /// Measure id of the `i`-th measure (MeasureID → MeasureName dictionary).
    fn measure_id(i: usize) -> String {
        format!("M{:04}", 100 + i)
    }

    /// Measure name of the `i`-th measure.
    fn measure_name(i: usize) -> String {
        format!(
            "{}_{}_RATE",
            MEASURE_STEMS[i % MEASURE_STEMS.len()],
            i / MEASURE_STEMS.len()
        )
    }

    /// Stream the clean rows one at a time.  [`HaiGenerator::generate`]
    /// drains this same stream, so streamed rows are byte-identical to the
    /// materialised dataset whatever the consumer's batch size.
    pub fn row_stream(&self) -> HaiRows {
        HaiRows {
            rng: Rng::seeded(self.seed),
            providers: self.providers.max(1),
            measures: self.measures.max(1),
            rows: self.rows,
            produced: 0,
        }
    }

    /// Generate the clean dataset by materialising the row stream.
    pub fn generate(&self) -> Dataset {
        let mut ds = Dataset::with_capacity(Self::schema(), self.rows);
        for row in self.row_stream() {
            ds.push_row(row).expect("row matches the HAI schema");
        }
        ds
    }

    /// Generate a clean dataset and corrupt it per the paper's protocol.
    pub fn dirty(&self, error_rate: f64, replacement_ratio: f64, seed: u64) -> DirtyDataset {
        let clean = self.generate();
        make_dirty(&clean, &Self::rules(), error_rate, replacement_ratio, seed)
    }

    /// Stream dirty rows: the clean row stream with every rule-related cell
    /// corrupted by the per-cell streaming protocol (deterministic in `seed`,
    /// batch-size independent).  Replacement errors draw the corresponding
    /// field of another provider (or another measure for the dictionary
    /// attributes), mirroring the batch injector's same-domain draws.
    pub fn dirty_row_stream(
        &self,
        error_rate: f64,
        replacement_ratio: f64,
        seed: u64,
    ) -> DirtyRowStream<HaiRows> {
        let p = self.providers.max(1) as u64;
        let m = self.measures.max(1) as u64;
        let provider_col = |col: usize, f: fn(usize) -> String| {
            StreamColumn::new(col, Box::new(move |draw: u64| f((draw % p) as usize)))
        };
        DirtyRowStream::new(
            self.row_stream(),
            vec![
                provider_col(0, Self::provider_id),
                provider_col(2, Self::provider_city),
                StreamColumn::new(
                    3,
                    Box::new(move |draw| Self::provider_state((draw % p) as usize).to_string()),
                ),
                provider_col(4, Self::provider_zip),
                provider_col(5, Self::provider_county),
                provider_col(6, Self::provider_phone),
                StreamColumn::new(
                    7,
                    Box::new(move |draw| Self::measure_id((draw % m) as usize)),
                ),
                StreamColumn::new(
                    8,
                    Box::new(move |draw| Self::measure_name((draw % m) as usize)),
                ),
            ],
            error_rate,
            replacement_ratio,
            seed,
        )
    }
}

/// Iterator over the clean HAI rows, in row order (see
/// [`HaiGenerator::row_stream`]).
#[derive(Debug, Clone)]
pub struct HaiRows {
    rng: Rng,
    providers: usize,
    measures: usize,
    rows: usize,
    produced: usize,
}

impl Iterator for HaiRows {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.produced >= self.rows {
            return None;
        }
        self.produced += 1;
        let p = self.rng.below(self.providers);
        let m = self.rng.below(self.measures);
        let score = format!("{:.3}", self.rng.uniform(0.0..5.0));
        Some(vec![
            HaiGenerator::provider_id(p),
            HaiGenerator::provider_name(p),
            HaiGenerator::provider_city(p),
            HaiGenerator::provider_state(p).to_string(),
            HaiGenerator::provider_zip(p),
            HaiGenerator::provider_county(p),
            HaiGenerator::provider_phone(p),
            HaiGenerator::measure_id(m),
            HaiGenerator::measure_name(m),
            score,
        ])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows - self.produced;
        (left, Some(left))
    }
}

impl ExactSizeIterator for HaiRows {}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::detect_violations;

    #[test]
    fn schema_covers_every_rule_attribute() {
        let ds = HaiGenerator::default().with_rows(10).generate();
        let rules = HaiGenerator::rules();
        assert!(rules.is_valid_for(ds.schema()));
        assert_eq!(rules.len(), 7);
    }

    #[test]
    fn clean_data_satisfies_all_rules() {
        let ds = HaiGenerator::default().with_rows(500).generate();
        assert!(detect_violations(&ds, &HaiGenerator::rules()).is_empty());
    }

    #[test]
    fn dense_repetition_of_providers() {
        let gen = HaiGenerator::default().with_rows(1000).with_providers(20);
        let ds = gen.generate();
        let provider_attr = ds.schema().attr_id("ProviderID").unwrap();
        let distinct = ds.domain(provider_attr).len();
        assert!(distinct <= 20);
        // Dense: each provider appears many times on average.
        assert!(ds.len() / distinct >= 10);
    }

    #[test]
    fn dirty_respects_requested_rate() {
        let gen = HaiGenerator::default().with_rows(400);
        let dirty = gen.dirty(0.10, 0.5, 3);
        assert!(dirty.error_count() > 0);
        // Rate is defined over rule-related cells only; just check bounds.
        let rule_attrs = HaiGenerator::rules().constrained_attrs().len();
        let eligible = dirty.dirty.len() * rule_attrs;
        assert!(dirty.error_count() <= (eligible as f64 * 0.10).round() as usize);
    }
}
